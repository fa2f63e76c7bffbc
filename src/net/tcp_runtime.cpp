#include "src/net/tcp_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/net/crc32.h"
#include "src/net/thread_runtime.h"

namespace now {
namespace {

// Frames larger than this cannot be legitimate (the largest real payload is
// one dense frame of pixels); a bigger length means the stream desynced.
constexpr std::uint32_t kMaxFrameLength = 1u << 30;

// MSG_NOSIGNAL: a peer whose socket was severed (crash injection, real
// death) must surface as a failed write, not a SIGPIPE killing the process.
bool write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// Reads exactly `size` bytes. A receive timeout (SO_RCVTIMEO) consults
// `keep_going` and keeps waiting while it allows — partial frames survive
// timeouts because the buffer position is preserved across retries. EOF or
// a hard error returns false immediately: a vanished peer is an error, not
// a hang.
bool read_all(int fd, void* data, std::size_t size,
              const std::function<bool()>& keep_going) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (keep_going && !keep_going()) return false;
      continue;
    }
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

struct FrameHeader {
  std::int32_t source;
  std::int32_t tag;
  std::uint32_t length;
  std::uint32_t crc;  // crc32 of the payload bytes
};

void set_receive_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

int make_listener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port, const TcpOptions& options, int rank,
                     Counter* retries) {
  int last_errno = 0;
  for (int attempt = 0; attempt < std::max(1, options.connect_attempts);
       ++attempt) {
    if (attempt > 0) {
      if (retries != nullptr) retries->inc();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          connect_backoff_seconds(options, rank, attempt - 1)));
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    last_errno = errno;
    ::close(fd);
  }
  throw std::runtime_error(std::string("connect failed after retries: ") +
                           std::strerror(last_errno));
}

/// kReorderMessage parking shared by every sender thread: at most one held
/// message per (src, dest) edge, released behind the edge's next send.
struct HeldFrames {
  std::mutex mu;
  std::map<std::pair<int, int>, Message> held;
};

class TcpContext final : public Context {
 public:
  TcpContext(int rank, int world_size, Mailbox* own_mailbox,
             std::vector<std::atomic<int>>* socket_of_rank,
             std::mutex* send_mu, std::atomic<bool>* stop_flag,
             std::vector<Mailbox>* all_mailboxes,
             std::atomic<std::int64_t>* messages,
             std::atomic<std::int64_t>* bytes,
             std::chrono::steady_clock::time_point epoch,
             FaultInjector* injector, TimerQueue* timers,
             const std::function<void(int)>* kill_rank, EventTracer* tracer,
             const std::vector<int>* endpoint_index,
             std::vector<std::atomic<int>>* peer_sockets, int num_endpoints,
             HeldFrames* held)
      : rank_(rank),
        world_size_(world_size),
        own_mailbox_(own_mailbox),
        socket_of_rank_(socket_of_rank),
        send_mu_(send_mu),
        stop_flag_(stop_flag),
        all_mailboxes_(all_mailboxes),
        messages_(messages),
        bytes_(bytes),
        epoch_(epoch),
        injector_(injector),
        timers_(timers),
        kill_rank_(kill_rank),
        tracer_(tracer),
        endpoint_index_(endpoint_index),
        peer_sockets_(peer_sockets),
        num_endpoints_(num_endpoints),
        held_(held) {}

  int rank() const override { return rank_; }
  int world_size() const override { return world_size_; }

  void send(int dest, int tag, std::string payload) override {
    const double t = now();
    if (injector_ != nullptr && injector_->crashed(rank_, t)) {
      (*kill_rank_)(rank_);  // sever the socket the first time we notice
      return;
    }
    if (dest == rank_) {  // continuation self-send: stays local
      own_mailbox_->push(Message{rank_, tag, std::move(payload)});
      return;
    }
    assert((rank_ == 0 || dest == 0 ||
            (endpoint_index_ != nullptr && (*endpoint_index_)[dest] >= 0)) &&
           "star + endpoints: slaves talk to the master or a declared "
           "endpoint");
    int copies = 1;
    if (injector_ != nullptr) {
      const FaultInjector::SendFaults f =
          injector_->on_send(rank_, dest, tag, t);
      if (f.drop) {
        copies = 0;
      } else if (f.hold && held_ != nullptr) {
        // Reorder: park the frame; the edge's next send releases it below.
        std::lock_guard<std::mutex> lock(held_->mu);
        held_->held[{rank_, dest}] = Message{rank_, tag, std::move(payload)};
        copies = 0;
      } else if (f.duplicate) {
        copies = 2;
      }
    }
    if (copies > 0) {
      // Master: socket to `dest`. Worker → master: its own socket to the
      // master. Worker → endpoint: its dialed peer socket to that endpoint.
      // Table entries are atomic because a rejoin replaces them mid-run.
      int fd;
      if (rank_ == 0) {
        fd = (*socket_of_rank_)[dest].load(std::memory_order_acquire);
      } else if (dest == 0) {
        fd = (*socket_of_rank_)[rank_].load(std::memory_order_acquire);
      } else {
        const int ep = (*endpoint_index_)[dest];
        fd = (*peer_sockets_)[static_cast<std::size_t>(rank_) *
                                  static_cast<std::size_t>(num_endpoints_) +
                              static_cast<std::size_t>(ep)]
                 .load(std::memory_order_acquire);
      }
      // A parked reorder victim for this edge rides out right behind the
      // frame being sent, under the same writer lock so nothing interleaves.
      Message parked;
      bool have_parked = false;
      if (held_ != nullptr) {
        std::lock_guard<std::mutex> lock(held_->mu);
        const auto it = held_->held.find({rank_, dest});
        if (it != held_->held.end()) {
          parked = std::move(it->second);
          held_->held.erase(it);
          have_parked = true;
        }
      }
      messages_->fetch_add(copies + (have_parked ? 1 : 0),
                           std::memory_order_relaxed);
      bytes_->fetch_add(
          copies * static_cast<std::int64_t>(payload.size()) +
              (have_parked ? static_cast<std::int64_t>(parked.payload.size())
                           : 0),
          std::memory_order_relaxed);
      const Message msg{rank_, tag, std::move(payload)};
      const std::int64_t frame_bytes =
          static_cast<std::int64_t>(msg.payload.size());
      {
        // One writer lock per rank keeps frames from interleaving when the
        // master's handler and shutdown race. A failed write (severed peer)
        // is deliberately ignored: the lease protocol owns recovery.
        std::lock_guard<std::mutex> lock(*send_mu_);
        for (int c = 0; c < copies; ++c) tcp_write_message(fd, msg);
        if (have_parked) tcp_write_message(fd, parked);
      }
      if (tracer_ != nullptr) {
        // Duration = time spent in the locked write path (queueing behind
        // the lock + kernel copy), measured on the sender's timeline.
        tracer_->complete(rank_, "net", "net.send", t, now() - t,
                          {{"dest", dest}, {"tag", tag},
                           {"bytes", frame_bytes}});
      }
    }
    // An after_frames crash triggers on the send that delivered the N-th
    // frame result: that message goes out, then the rank dies.
    if (injector_ != nullptr && injector_->crashed(rank_, t)) {
      (*kill_rank_)(rank_);
    }
  }

  void send_after(double delay_seconds, int tag, std::string payload) override {
    timers_->schedule(delay_seconds, rank_,
                      Message{rank_, tag, std::move(payload)});
  }

  void charge(double) override {}

  double now() const override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  void stop() override {
    stop_flag_->store(true, std::memory_order_release);
    for (auto& mb : *all_mailboxes_) mb.shutdown();
  }

 private:
  int rank_;
  int world_size_;
  Mailbox* own_mailbox_;
  std::vector<std::atomic<int>>* socket_of_rank_;
  std::mutex* send_mu_;
  std::atomic<bool>* stop_flag_;
  std::vector<Mailbox>* all_mailboxes_;
  std::atomic<std::int64_t>* messages_;
  std::atomic<std::int64_t>* bytes_;
  std::chrono::steady_clock::time_point epoch_;
  FaultInjector* injector_;
  TimerQueue* timers_;
  const std::function<void(int)>* kill_rank_;
  EventTracer* tracer_;
  const std::vector<int>* endpoint_index_;       // rank → endpoint slot or -1
  std::vector<std::atomic<int>>* peer_sockets_;  // [rank * E + slot] → fd
  int num_endpoints_;
  HeldFrames* held_;
};

}  // namespace

double connect_backoff_seconds(const TcpOptions& options, int rank,
                               int attempt) {
  double delay = options.connect_backoff_base_seconds *
                 std::ldexp(1.0, std::min(attempt, 30));
  delay = std::min(delay, options.connect_backoff_max_seconds);
  // splitmix64-style hash of (rank, attempt) → jitter factor in [0.5, 1):
  // deterministic (same schedule every run) but decorrelated across ranks.
  std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                         rank))
                     << 32) ^
                    static_cast<std::uint32_t>(attempt) ^
                    0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  const double unit =
      static_cast<double>(x >> 11) / 9007199254740992.0;  // [0, 1)
  return delay * (0.5 + 0.5 * unit);
}

std::string tcp_encode_frame(const Message& msg) {
  FrameHeader header{msg.source, msg.tag,
                     static_cast<std::uint32_t>(msg.payload.size()),
                     crc32(msg.payload.data(), msg.payload.size())};
  std::string out(reinterpret_cast<const char*>(&header), sizeof(header));
  out += msg.payload;
  return out;
}

bool tcp_write_message(int fd, const Message& msg) {
  const std::string frame = tcp_encode_frame(msg);
  return write_all(fd, frame.data(), frame.size());
}

TcpReadStatus tcp_read_frame(int fd, Message* msg,
                             const std::function<bool()>& keep_going) {
  FrameHeader header;
  if (!read_all(fd, &header, sizeof(header), keep_going)) {
    return TcpReadStatus::kClosed;
  }
  if (header.length > kMaxFrameLength) return TcpReadStatus::kClosed;
  msg->source = header.source;
  msg->tag = header.tag;
  msg->payload.resize(header.length);
  if (header.length != 0 &&
      !read_all(fd, msg->payload.data(), header.length, keep_going)) {
    return TcpReadStatus::kClosed;
  }
  if (crc32(msg->payload.data(), msg->payload.size()) != header.crc) {
    // The frame structure was intact (we consumed exactly `length` bytes,
    // the stream stays aligned) but the payload was damaged in flight:
    // surface it as corruption so the caller can count and drop it.
    return TcpReadStatus::kCorrupt;
  }
  return TcpReadStatus::kOk;
}

bool tcp_read_message(int fd, Message* msg,
                      const std::function<bool()>& keep_going) {
  for (;;) {
    switch (tcp_read_frame(fd, msg, keep_going)) {
      case TcpReadStatus::kOk: return true;
      case TcpReadStatus::kClosed: return false;
      case TcpReadStatus::kCorrupt: continue;  // dropped message
    }
  }
}

bool tcp_read_message(int fd, Message* msg) {
  return tcp_read_message(fd, msg, nullptr);
}

RuntimeStats TcpRuntime::run(const std::vector<Actor*>& actors) {
  const int n = static_cast<int>(actors.size());
  assert(n >= 1);

  std::uint16_t port = 0;
  const int listener = make_listener(&port);
  // The listener stays open for mid-run rejoins; teardown shuts it down to
  // end the accept loop. The timeout tick is only a fallback for that.
  set_receive_timeout(listener, options_.receive_timeout_seconds);

  // Extra endpoints (framebuffer shards): each gets its own listener that
  // every non-endpoint worker dials, so pixel traffic bypasses rank 0.
  const int num_endpoints = static_cast<int>(options_.extra_endpoints.size());
  std::vector<int> endpoint_index(static_cast<std::size_t>(n), -1);
  for (int e = 0; e < num_endpoints; ++e) {
    const int rank = options_.extra_endpoints[static_cast<std::size_t>(e)];
    if (rank < 1 || rank >= n || endpoint_index[rank] >= 0) {
      ::close(listener);
      throw std::invalid_argument(
          "TcpOptions::extra_endpoints must name distinct non-zero ranks");
    }
    endpoint_index[rank] = e;
  }
  std::vector<int> endpoint_listeners(static_cast<std::size_t>(num_endpoints),
                                      -1);
  std::vector<std::uint16_t> endpoint_ports(
      static_cast<std::size_t>(num_endpoints), 0);
  for (int e = 0; e < num_endpoints; ++e) {
    endpoint_listeners[e] = make_listener(&endpoint_ports[e]);
    set_receive_timeout(endpoint_listeners[e],
                        options_.receive_timeout_seconds);
  }
  // Ranks that dial the endpoints: every non-zero rank that is not itself an
  // endpoint (endpoints never message each other, and rank 0 reaches them
  // over the star like any other dialed-in rank).
  int num_dialers = 0;
  for (int r = 1; r < n; ++r) {
    if (endpoint_index[r] < 0) ++num_dialers;
  }

  // Socket tables, atomic because a rejoin swaps entries mid-run:
  // master_sockets[w] = master's socket to worker w; worker_sockets[w] =
  // worker w's socket to the master.
  std::vector<std::atomic<int>> master_sockets(static_cast<std::size_t>(n));
  std::vector<std::atomic<int>> worker_sockets(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    master_sockets[i].store(-1);
    worker_sockets[i].store(-1);
  }
  // peer_sockets[w * E + e] = worker w's dialed socket to endpoint slot e;
  // endpoint_accept_fds[e * n + w] = endpoint e's accepted socket from w.
  // Both sides are tracked so a crash can sever the full duplex pair.
  std::vector<std::atomic<int>> peer_sockets(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(num_endpoints));
  std::vector<std::atomic<int>> endpoint_accept_fds(
      static_cast<std::size_t>(num_endpoints) * static_cast<std::size_t>(n));
  for (auto& s : peer_sockets) s.store(-1);
  for (auto& s : endpoint_accept_fds) s.store(-1);
  // Sockets replaced by a rejoin are parked here and closed at shutdown —
  // their reader pumps may still hold the fd until they notice the close.
  std::mutex retired_mu;
  std::vector<int> retired_fds;
  const auto retire_fd = [&](int fd) {
    if (fd < 0) return;
    std::lock_guard<std::mutex> lock(retired_mu);
    retired_fds.push_back(fd);
  };

  std::vector<Mailbox> mailboxes(n);
  std::atomic<bool> stop_flag{false};
  std::atomic<std::int64_t> messages{0};
  std::atomic<std::int64_t> bytes{0};
  const auto epoch = std::chrono::steady_clock::now();
  const auto wall_now = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };

  EventTracer* tracer = obs_.tracer;
  if (tracer != nullptr && !tracer->enabled()) tracer = nullptr;
  Counter* corrupt_frames =
      obs_.metrics != nullptr ? &obs_.metrics->counter("net.corrupt_frames")
                              : nullptr;
  Counter* connect_retries =
      obs_.metrics != nullptr ? &obs_.metrics->counter("net.connect_retries")
                              : nullptr;

  std::unique_ptr<FaultInjector> injector;
  if (!plan_.empty()) {
    injector = std::make_unique<FaultInjector>(plan_, n, tracer);
  }

  // Crash realization: sever both ends of the rank's connection. The
  // per-rank membership mutex serializes this against a rejoin replacing the
  // sockets — a stale kill (observed the crash just before the revive) must
  // not sever the fresh connection, hence the crashed() re-check under the
  // lock.
  std::vector<std::mutex> membership_mus(static_cast<std::size_t>(n));
  std::vector<std::atomic<bool>> rank_killed(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rank_killed[i].store(false);
  const std::function<void(int)> kill_rank = [&](int rank) {
    if (rank < 1 || rank >= n) return;
    std::lock_guard<std::mutex> lock(membership_mus[rank]);
    if (injector != nullptr && !injector->crashed(rank, wall_now())) return;
    if (rank_killed[rank].exchange(true)) return;
    ::shutdown(master_sockets[rank].load(), SHUT_RDWR);
    ::shutdown(worker_sockets[rank].load(), SHUT_RDWR);
    // A dead worker's endpoint connections die with it: sever its dialed
    // peer sockets and the endpoint-side accepted ends.
    for (int e = 0; e < num_endpoints; ++e) {
      ::shutdown(peer_sockets[static_cast<std::size_t>(rank) *
                                  static_cast<std::size_t>(num_endpoints) +
                              static_cast<std::size_t>(e)]
                     .load(),
                 SHUT_RDWR);
      ::shutdown(endpoint_accept_fds[static_cast<std::size_t>(e) *
                                         static_cast<std::size_t>(n) +
                                     static_cast<std::size_t>(rank)]
                     .load(),
                 SHUT_RDWR);
    }
  };

  // Reader pumps are spawned at startup AND mid-run (rejoins, late
  // accepts); the vector is locked for spawning and joined after every
  // spawner has stopped.
  std::mutex readers_mu;
  std::vector<std::thread> readers;
  TimerQueue* timers_ptr = nullptr;  // set right after construction below

  // Pump for one master-side connection to worker w: reads w's frames into
  // the master's mailbox until the socket dies.
  const auto spawn_master_pump = [&](int w, int fd) {
    std::lock_guard<std::mutex> lock(readers_mu);
    readers.emplace_back([&, w, fd] {
      const auto keep_going = [&] {
        if (injector != nullptr && injector->crashed(w, wall_now())) {
          kill_rank(w);
          return false;
        }
        return !stop_flag.load(std::memory_order_acquire);
      };
      Message msg;
      for (;;) {
        const TcpReadStatus st = tcp_read_frame(fd, &msg, keep_going);
        if (st == TcpReadStatus::kClosed) break;
        if (st == TcpReadStatus::kCorrupt) {
          if (corrupt_frames != nullptr) corrupt_frames->inc();
          continue;  // CRC mismatch == dropped message
        }
        const double delay =
            injector != nullptr ? injector->delivery_delay(0, wall_now()) : 0.0;
        if (delay > 0.0) {
          timers_ptr->schedule(delay, 0, std::move(msg));
        } else {
          mailboxes[0].push(std::move(msg));
        }
      }
    });
  };
  // Pump for worker w's own connection: reads the master's frames into w's
  // mailbox.
  const auto spawn_worker_pump = [&](int w, int fd) {
    std::lock_guard<std::mutex> lock(readers_mu);
    readers.emplace_back([&, w, fd] {
      const auto keep_going = [&] {
        if (injector != nullptr && injector->crashed(w, wall_now())) {
          kill_rank(w);
          return false;
        }
        return !stop_flag.load(std::memory_order_acquire);
      };
      Message msg;
      for (;;) {
        const TcpReadStatus st = tcp_read_frame(fd, &msg, keep_going);
        if (st == TcpReadStatus::kClosed) break;
        if (st == TcpReadStatus::kCorrupt) {
          if (corrupt_frames != nullptr) corrupt_frames->inc();
          continue;
        }
        if (injector != nullptr && injector->crashed(w, wall_now())) {
          kill_rank(w);
          break;
        }
        const double delay =
            injector != nullptr ? injector->delivery_delay(w, wall_now()) : 0.0;
        if (delay > 0.0) {
          timers_ptr->schedule(delay, w, std::move(msg));
        } else {
          mailboxes[w].push(std::move(msg));
        }
      }
    });
  };
  // Pump for one endpoint-side accepted connection from worker w: reads w's
  // frames into endpoint rank e's mailbox until the socket dies.
  const auto spawn_endpoint_pump = [&](int e, int w, int fd) {
    std::lock_guard<std::mutex> lock(readers_mu);
    readers.emplace_back([&, e, w, fd] {
      const auto keep_going = [&] {
        if (injector != nullptr && injector->crashed(w, wall_now())) {
          kill_rank(w);
          return false;
        }
        return !stop_flag.load(std::memory_order_acquire);
      };
      Message msg;
      for (;;) {
        const TcpReadStatus st = tcp_read_frame(fd, &msg, keep_going);
        if (st == TcpReadStatus::kClosed) break;
        if (st == TcpReadStatus::kCorrupt) {
          if (corrupt_frames != nullptr) corrupt_frames->inc();
          continue;
        }
        const double delay =
            injector != nullptr ? injector->delivery_delay(e, wall_now()) : 0.0;
        if (delay > 0.0) {
          timers_ptr->schedule(delay, e, std::move(msg));
        } else {
          mailboxes[e].push(std::move(msg));
        }
      }
    });
  };

  // A rejoining worker dials a brand-new connection (its old one was
  // severed at crash time), re-handshakes its rank — the accept loop
  // installs the master side — and is marked alive again. With endpoints it
  // also re-dials every endpoint listener, replacing its peer sockets. Runs
  // on the timer thread when the kRejoin event fires.
  const auto rejoin_rank = [&](int rank) -> bool {
    std::unique_lock<std::mutex> lock(membership_mus[rank]);
    injector->revive(rank, wall_now());
    int fd = -1;
    try {
      fd = connect_loopback(port, options_, rank, connect_retries);
    } catch (const std::runtime_error&) {
      return false;  // listener gone: the run is already shutting down
    }
    const std::int32_t r = rank;
    if (!write_all(fd, &r, sizeof(r))) {
      ::close(fd);
      return false;
    }
    set_receive_timeout(fd, options_.receive_timeout_seconds);
    if (endpoint_index[rank] < 0) {
      for (int e = 0; e < num_endpoints; ++e) {
        int pfd = -1;
        try {
          pfd = connect_loopback(endpoint_ports[e], options_, rank,
                                 connect_retries);
        } catch (const std::runtime_error&) {
          ::close(fd);
          return false;  // endpoint listener gone: shutdown in progress
        }
        if (!write_all(pfd, &r, sizeof(r))) {
          ::close(pfd);
          ::close(fd);
          return false;
        }
        retire_fd(peer_sockets[static_cast<std::size_t>(rank) *
                                   static_cast<std::size_t>(num_endpoints) +
                               static_cast<std::size_t>(e)]
                      .exchange(pfd));
      }
    }
    retire_fd(worker_sockets[rank].exchange(fd));
    rank_killed[rank].store(false);
    lock.unlock();
    spawn_worker_pump(rank, fd);
    return true;
  };

  TimerQueue timers([&](int dest, Message msg) {
    if (dest < 0 || dest >= n) return;
    if (injector != nullptr && plan_.rejoin_tag >= 0 &&
        msg.tag == plan_.rejoin_tag && msg.source == dest) {
      // Reconnect first so the worker's re-Hello has a live socket to ride.
      if (rejoin_rank(dest)) mailboxes[dest].push(std::move(msg));
      return;
    }
    if (injector != nullptr && injector->crashed(dest, wall_now())) return;
    mailboxes[dest].push(std::move(msg));
  });
  timers_ptr = &timers;
  if (injector != nullptr && plan_.rejoin_tag >= 0) {
    for (const FaultEvent& e : plan_.events) {
      if (e.kind != FaultKind::kRejoin || e.at_time < 0.0) continue;
      timers.schedule(e.at_time, e.rank, Message{e.rank, plan_.rejoin_tag, {}});
    }
    // Relative rejoins (after_crash_seconds) are resolved by the injector
    // the moment the crash fires and handed to us here to ride the timer.
    injector->set_rejoin_hook([&](int rank, double at) {
      timers.schedule(std::max(0.0, at - wall_now()), rank,
                      Message{rank, plan_.rejoin_tag, {}});
    });
  }

  // Persistent accept loop: initial connections and mid-run rejoins both
  // land here. Each accepted socket handshakes its rank, replaces the
  // rank's master-side slot, and gets its own reader pump.
  std::atomic<int> accepted_initial{0};
  std::thread acceptor([&] {
    while (!stop_flag.load(std::memory_order_acquire)) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // timeout tick: re-check stop
        }
        break;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      std::int32_t rank = -1;
      if (!read_all(fd, &rank, sizeof(rank), nullptr) || rank < 1 ||
          rank >= n) {
        ::close(fd);
        continue;
      }
      set_receive_timeout(fd, options_.receive_timeout_seconds);
      retire_fd(master_sockets[rank].exchange(fd));
      spawn_master_pump(rank, fd);
      accepted_initial.fetch_add(1, std::memory_order_release);
    }
  });

  // One persistent accept loop per endpoint: initial worker dials and
  // post-rejoin re-dials both land here. Same handshake as rank 0's loop.
  std::vector<std::atomic<int>> endpoint_accepted(
      static_cast<std::size_t>(num_endpoints));
  for (auto& c : endpoint_accepted) c.store(0);
  std::vector<std::thread> endpoint_acceptors;
  for (int e = 0; e < num_endpoints; ++e) {
    endpoint_acceptors.emplace_back([&, e] {
      const int lfd = endpoint_listeners[e];
      while (!stop_flag.load(std::memory_order_acquire)) {
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
            continue;  // timeout tick: re-check stop
          }
          break;
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::int32_t rank = -1;
        if (!read_all(fd, &rank, sizeof(rank), nullptr) || rank < 1 ||
            rank >= n || endpoint_index[rank] >= 0) {
          ::close(fd);
          continue;
        }
        set_receive_timeout(fd, options_.receive_timeout_seconds);
        retire_fd(endpoint_accept_fds[static_cast<std::size_t>(e) *
                                          static_cast<std::size_t>(n) +
                                      static_cast<std::size_t>(rank)]
                      .exchange(fd));
        spawn_endpoint_pump(options_.extra_endpoints[e], rank, fd);
        endpoint_accepted[e].fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Workers connect and announce their rank before their actor threads
  // start (a worker's first act is a Hello through its socket). Non-endpoint
  // workers additionally dial every endpoint listener.
  std::vector<std::thread> connectors;
  for (int rank = 1; rank < n; ++rank) {
    connectors.emplace_back([&, rank] {
      const int fd = connect_loopback(port, options_, rank, connect_retries);
      const std::int32_t r = rank;
      write_all(fd, &r, sizeof(r));
      set_receive_timeout(fd, options_.receive_timeout_seconds);
      worker_sockets[rank].store(fd, std::memory_order_release);
      spawn_worker_pump(rank, fd);
      if (endpoint_index[rank] < 0) {
        for (int e = 0; e < num_endpoints; ++e) {
          const int pfd =
              connect_loopback(endpoint_ports[e], options_, rank,
                               connect_retries);
          write_all(pfd, &r, sizeof(r));
          peer_sockets[static_cast<std::size_t>(rank) *
                           static_cast<std::size_t>(num_endpoints) +
                       static_cast<std::size_t>(e)]
              .store(pfd, std::memory_order_release);
        }
      }
    });
  }
  for (auto& t : connectors) t.join();
  // Wait for the receiving side of every initial connection: the first
  // send over any link must not race its handshake.
  while (accepted_initial.load(std::memory_order_acquire) < n - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int e = 0; e < num_endpoints; ++e) {
    while (endpoint_accepted[e].load(std::memory_order_acquire) <
           num_dialers) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::vector<std::mutex> send_mus(n);
  HeldFrames held;
  std::vector<std::thread> threads;
  for (int rank = 0; rank < n; ++rank) {
    threads.emplace_back([&, rank] {
      std::vector<std::atomic<int>>& table =
          rank == 0 ? master_sockets : worker_sockets;
      TcpContext ctx(rank, n, &mailboxes[rank], &table, &send_mus[rank],
                     &stop_flag, &mailboxes, &messages, &bytes, epoch,
                     injector.get(), &timers, &kill_rank, tracer,
                     &endpoint_index, &peer_sockets, num_endpoints, &held);
      actors[rank]->on_start(ctx);
      Message msg;
      while (mailboxes[rank].pop(&msg)) {
        if (injector != nullptr && injector->crashed(rank, ctx.now())) continue;
        if (tracer != nullptr && msg.source != rank) {
          tracer->instant(
              rank, "net", "net.recv", ctx.now(),
              {{"src", msg.source},
               {"tag", msg.tag},
               {"bytes", static_cast<std::int64_t>(msg.payload.size())}});
        }
        actors[rank]->on_message(ctx, msg);
      }
      actors[rank]->on_shutdown(ctx);
    });
  }
  for (auto& t : threads) t.join();
  timers.shutdown();
  stop_flag.store(true, std::memory_order_release);
  // Shutting a listener down wakes its blocked accept() at once, so teardown
  // does not wait out a receive-timeout tick.
  ::shutdown(listener, SHUT_RDWR);
  for (const int lfd : endpoint_listeners) ::shutdown(lfd, SHUT_RDWR);
  acceptor.join();
  ::close(listener);
  for (auto& t : endpoint_acceptors) t.join();
  for (const int lfd : endpoint_listeners) ::close(lfd);

  // Sever the live sockets to unblock the reader pumps, then join and close
  // everything (including connections retired by rejoins).
  for (int w = 1; w < n; ++w) {
    ::shutdown(master_sockets[w].load(), SHUT_RDWR);
    ::shutdown(worker_sockets[w].load(), SHUT_RDWR);
  }
  for (auto& s : peer_sockets) ::shutdown(s.load(), SHUT_RDWR);
  for (auto& s : endpoint_accept_fds) ::shutdown(s.load(), SHUT_RDWR);
  {
    // No spawner is alive (timers, acceptors all joined above), so the
    // vector is stable now.
    std::lock_guard<std::mutex> lock(readers_mu);
    for (auto& t : readers) t.join();
  }
  for (int w = 1; w < n; ++w) {
    if (master_sockets[w].load() >= 0) ::close(master_sockets[w].load());
    if (worker_sockets[w].load() >= 0) ::close(worker_sockets[w].load());
  }
  for (auto& s : peer_sockets) {
    if (s.load() >= 0) ::close(s.load());
  }
  for (auto& s : endpoint_accept_fds) {
    if (s.load() >= 0) ::close(s.load());
  }
  for (const int fd : retired_fds) ::close(fd);

  RuntimeStats stats;
  stats.elapsed_seconds = wall_now();
  stats.messages = messages.load();
  stats.bytes = bytes.load();
  if (injector != nullptr) injector->export_metrics(obs_.metrics);
  return stats;
}

}  // namespace now
