// SendPipeline: overlaps a worker's frame encoding + network send with the
// render of the next frame.
//
// Without it the worker loop serializes render → encode → send → render; on
// the wall-clock backends the encode (codec compression) and the TCP write
// happen while the render threads sit idle. The pipeline moves both onto a
// dedicated sender thread behind a bounded queue (double-buffered: at most
// `max_queued_frames` encoded-or-pending frames in flight, so a slow link
// applies back-pressure instead of unbounded memory).
//
// Ordering is a correctness invariant, not an optimization: the master
// relies on per-sender FIFO delivery (a gap in a task's frame chain triggers
// cancel-and-reclaim), so *every* master-bound message — frame results AND
// control traffic (hello, request, shrink-ack, pong, nack) — flows through
// the same single queue. Only self-sends (the render-loop continuation) stay
// on the actor thread.
//
// In synchronous mode (the sim backend) the same calls encode and send
// inline on the actor thread, byte-for-byte and order-for-order identical
// to the pipelined sends.
//
// Lifetime: the sender thread holds the actor's Context, which lives on the
// actor thread's stack until after Actor::on_shutdown — the worker must call
// shutdown() there. Items still queued at shutdown are dropped, which is
// safe by construction: the master only stops the runtime once every pixel
// is committed, so an unsent frame at shutdown is a duplicate.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "src/net/codec.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/par/protocol.h"
#include "src/shard/ownership.h"

namespace now {

struct SendPipelineOptions {
  FrameCodec codec = FrameCodec::kRaw;
  /// Encode + send on a dedicated sender thread. Requires a wall-clock
  /// runtime (the sim is sequential; its Context is not thread-safe).
  bool threaded = false;
  /// Frames admitted to the queue before send_frame blocks (>= 1).
  int max_queued_frames = 2;
  /// net.send_pipeline spans on the worker's timeline (threaded mode only;
  /// inline sends are already visible as runtime net.send events).
  EventTracer* tracer = nullptr;
  /// Sink for net.frame_bytes_raw / net.frame_bytes_wire /
  /// net.key_frames / net.delta_frames / net.pipeline_dropped.
  MetricsRegistry* metrics = nullptr;
  /// Frame ownership: each frame result is sent to owner_rank(frame) — the
  /// owning FrameShard in sharded mode, rank 0 otherwise. Control traffic
  /// always goes to the scheduler at rank 0. Per-destination FIFO is
  /// preserved (one sender, sequential sends).
  ShardMap shards;
};

class SendPipeline {
 public:
  explicit SendPipeline(const SendPipelineOptions& options);
  ~SendPipeline();

  SendPipeline(const SendPipeline&) = delete;
  SendPipeline& operator=(const SendPipeline&) = delete;

  /// Queue a control message to the master, FIFO with queued frames. Never
  /// blocks (control traffic is tiny and must not deadlock a full queue).
  void send_control(Context& ctx, int tag, std::string payload);

  /// Encode (versioned envelope, codec compression) and send one frame
  /// result to the master. Threaded mode enqueues and returns so the caller
  /// can start rendering the next frame; blocks only while
  /// max_queued_frames results are already pending.
  void send_frame(Context& ctx, FrameResult result);

  /// Drop everything queued but unsent. Models a worker process restart
  /// (elastic rejoin): the real process's outbound buffers died with it.
  void discard_pending();

  /// Stop and join the sender thread; queued items are dropped (see header
  /// comment for why that is safe). Must be called from Actor::on_shutdown
  /// in threaded mode. Idempotent.
  void shutdown();

 private:
  struct Item {
    int tag = 0;
    std::string payload;                // control messages
    std::optional<FrameResult> frame;   // frame jobs (encoded on dequeue)
  };

  void enqueue(Context& ctx, Item item, bool is_frame);
  void encode_and_send(Context& ctx, Item& item);
  void run();

  SendPipelineOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;          // sender: queue non-empty / stopping
  std::condition_variable space_cv_;    // producer: frame slots available
  std::deque<Item> queue_;
  int queued_frames_ = 0;
  bool stop_ = false;
  Context* ctx_ = nullptr;  // the actor's context; set on first send
  std::thread sender_;
  bool started_ = false;

  // Cached instruments (null when metrics are off).
  Counter* bytes_raw_ = nullptr;
  Counter* bytes_wire_ = nullptr;
  Counter* key_frames_ = nullptr;
  Counter* delta_frames_ = nullptr;
  Counter* dropped_ = nullptr;
  Histogram* result_bytes_ = nullptr;
};

}  // namespace now
