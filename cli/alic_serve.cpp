//===- cli/alic_serve.cpp - Session-multiplexed tuning daemon -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
//
// A long-running daemon serving many concurrent tuning sessions over a
// newline-delimited JSON protocol on a Unix-domain socket (see
// docs/SERVE_PROTOCOL.md).  Typical use:
//
//   ALIC_SCALE=smoke alic_serve --socket=/tmp/alic.sock --state-dir=serve &
//   # wait for the READY line, then exchange one JSON object per line
//
// Sessions checkpoint to --state-dir on every observation; on restart the
// daemon replays every snapshot and resumes each session exactly where it
// stood (SIGKILL-safe — serve_test and tools/serve_smoke.py pin this).
//
// The event loop is hardened against hostile and unlucky clients alike:
// all sockets are nonblocking, replies queue in a bounded per-client
// out-buffer drained via POLLOUT (a stalled reader is disconnected rather
// than wedging the daemon), idle connections time out, oversized requests
// are answered with an error and dropped, and EMFILE-style accept
// failures back off instead of spinning.  SIGTERM/SIGINT (and the
// `shutdown` op) trigger a graceful drain: stop accepting, answer every
// in-flight request, snapshot all sessions, exit 0.  The `serve.accept` /
// `serve.recv` / `serve.send` failpoints (support/FailPoint.h) inject
// faults into each syscall site for the chaos tests.
//
//===----------------------------------------------------------------------===//

#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "support/Backoff.h"
#include "support/FailPoint.h"
#include "support/Parse.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alic;

namespace {

[[noreturn]] void usage(const char *Binary, const char *Complaint) {
  if (Complaint)
    std::fprintf(stderr, "error: %s\n\n", Complaint);
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "Suggest/observe tuning service over a Unix-domain socket.\n"
      "Scale comes from ALIC_SCALE (smoke|bench|paper; default bench).\n\n"
      "  --socket=PATH         socket to listen on (default: alic-serve.sock)\n"
      "  --state-dir=DIR       session snapshot directory; empty disables\n"
      "                        checkpointing (default: alic-serve-state)\n"
      "  --threads=N|auto      scheduler workers shared by all sessions\n"
      "                        (auto = hardware concurrency; default 0 =\n"
      "                        inline, bit-identical either way)\n"
      "  --checkpoint-every=K  snapshot every K-th observe (default 1)\n"
      "  --idle-timeout-ms=T   disconnect clients idle for T ms\n"
      "                        (default 60000; 0 disables)\n"
      "  --max-request-bytes=N error+disconnect on a request line over N\n"
      "                        bytes (default 4194304)\n"
      "  --max-send-buffer=N   disconnect a client whose unread replies\n"
      "                        exceed N bytes (default 4194304)\n"
      "  --drain-timeout-ms=T  bound on the graceful SIGTERM/shutdown\n"
      "                        drain (default 5000)\n",
      Binary);
  std::exit(2);
}

/// One connected client: a nonblocking socket, its partial-line input
/// buffer, queued-but-unsent replies, and an idle-timeout deadline base.
struct Client {
  int Fd = -1;
  std::string Pending;
  std::string Out;
  uint64_t LastActivityMs = 0;
  /// Close once Out drains (oversized request answered with an error).
  bool CloseAfterFlush = false;
};

/// Monotonic milliseconds (never wall clock: immune to NTP steps).
uint64_t nowMs() {
  timespec Ts;
  ::clock_gettime(CLOCK_MONOTONIC, &Ts);
  return uint64_t(Ts.tv_sec) * 1000 + uint64_t(Ts.tv_nsec) / 1000000;
}

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

volatile std::sig_atomic_t GotSignal = 0;
void onSignal(int) { GotSignal = 1; }

/// Pushes as much of C.Out into the kernel as it will take.  Returns
/// false when the client must be dropped (peer gone, or a non-transient
/// send error); leftover bytes wait for POLLOUT.
bool flushClient(Client &C) {
  while (!C.Out.empty()) {
    FailOutcome F = ALIC_FAILPOINT("serve.send");
    ssize_t N;
    if (F.Fire) {
      N = -1;
      errno = F.Errno;
    } else {
      N = ::send(C.Fd, C.Out.data(), C.Out.size(),
#ifdef MSG_NOSIGNAL
                 MSG_NOSIGNAL
#else
                 0
#endif
      );
    }
    if (N < 0 && errno == EINTR)
      continue; // transient: retry, never disconnect
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // kernel buffer full: wait for POLLOUT
    if (N <= 0)
      return false;
    C.Out.erase(0, size_t(N));
    C.LastActivityMs = nowMs();
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath = "alic-serve.sock";
  ServeOptions Opts;
  Opts.StateDir = "alic-serve-state";
  uint64_t IdleTimeoutMs = 60000, DrainTimeoutMs = 5000;
  uint64_t MaxRequestBytes = 4194304, MaxSendBufferBytes = 4194304;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    std::string Value;
    // Numeric flags parse totally: "-1", "abc" or an out-of-range value is
    // a usage error, never a wrapped or zeroed knob.  Timeouts stop at
    // 2^32 ms (49 days), far from overflowing the monotonic clock.
    auto Count = [&](uint64_t Max) {
      uint64_t Out = 0;
      if (!parseCount(Value, Max, Out))
        usage(Argv[0], (std::string("bad value in ") + Arg).c_str());
      return Out;
    };
    const uint64_t MaxMs = std::numeric_limits<uint32_t>::max();
    if (parseFlag(Arg, "--socket", SocketPath) ||
        parseFlag(Arg, "--state-dir", Opts.StateDir))
      continue;
    if (parseFlag(Arg, "--threads", Value)) {
      if (!parseThreads(Value, Opts.Threads))
        usage(Argv[0], (std::string("bad value in ") + Arg).c_str());
    } else if (parseFlag(Arg, "--checkpoint-every", Value)) {
      Opts.CheckpointEveryObserves =
          unsigned(Count(std::numeric_limits<unsigned>::max()));
    } else if (parseFlag(Arg, "--idle-timeout-ms", Value)) {
      IdleTimeoutMs = Count(MaxMs);
    } else if (parseFlag(Arg, "--max-request-bytes", Value)) {
      MaxRequestBytes = Count(std::numeric_limits<size_t>::max());
    } else if (parseFlag(Arg, "--max-send-buffer", Value)) {
      MaxSendBufferBytes = Count(std::numeric_limits<size_t>::max());
    } else if (parseFlag(Arg, "--drain-timeout-ms", Value)) {
      DrainTimeoutMs = Count(MaxMs);
    } else {
      usage(Argv[0], (std::string("unknown argument ") + Arg).c_str());
    }
  }
  if (!Opts.StateDir.empty())
    Opts.DatasetCacheDir = Opts.StateDir + "/datasets";

  ServeEngine Engine(Opts);
  size_t Skipped = 0;
  size_t Restored = Engine.restoreSessions(&Skipped);
  if (Restored || Skipped)
    std::fprintf(stderr, "alic_serve: restored %zu session(s), skipped %zu\n",
                 Restored, Skipped);

  // Bind the listening socket.  A stale path from a killed daemon is
  // unlinked first — session state lives in --state-dir, not the socket.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGTERM, onSignal);
  ::signal(SIGINT, onSignal);
  int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Listener < 0) {
    std::perror("alic_serve: socket");
    return 1;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "alic_serve: socket path too long: %s\n",
                 SocketPath.c_str());
    return 1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  ::unlink(SocketPath.c_str());
  if (::bind(Listener, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(Listener, 64) < 0) {
    std::perror("alic_serve: bind/listen");
    return 1;
  }
  setNonBlocking(Listener);

  // The line scripts wait for before connecting.
  std::printf("READY %s\n", SocketPath.c_str());
  std::fflush(stdout);

  std::vector<Client> Clients;
  bool Draining = false;
  uint64_t DrainDeadlineMs = 0;
  uint64_t AcceptBackoffUntilMs = 0;
  // Escalating accept backoff: consecutive resource-exhaustion failures
  // (EMFILE and friends) wait 100 ms doubling to 1.6 s, jittered so a
  // fleet of daemons starved by the same global descriptor table does not
  // retry in lockstep.  One successful accept resets the ladder.
  const Backoff AcceptBackoff(0xacce97, 100, 1600);
  uint64_t AcceptFailures = 0;

  // Stop accepting, finish in-flight work, then exit through the
  // post-loop snapshotAll.
  auto StartDrain = [&] {
    if (Draining)
      return;
    Draining = true;
    DrainDeadlineMs = nowMs() + DrainTimeoutMs;
    if (Listener >= 0) {
      ::close(Listener);
      Listener = -1;
    }
  };

  while (true) {
    if (GotSignal)
      StartDrain();
    uint64_t Now = nowMs();

    if (Draining) {
      // A client is "settled" once every queued reply is flushed and no
      // complete request is waiting; settled clients are released so the
      // drain can finish before the deadline.
      for (size_t I = 0; I != Clients.size();) {
        Client &C = Clients[I];
        if (C.Out.empty() && C.Pending.find('\n') == std::string::npos) {
          ::close(C.Fd);
          Clients[I] = std::move(Clients.back());
          Clients.pop_back();
        } else {
          ++I;
        }
      }
      if (Clients.empty() || Now >= DrainDeadlineMs)
        break;
    }

    std::vector<pollfd> Fds;
    if (Listener >= 0)
      Fds.push_back({Listener,
                     short(Now < AcceptBackoffUntilMs ? 0 : POLLIN), 0});
    size_t FirstClient = Fds.size();
    for (const Client &C : Clients)
      Fds.push_back({C.Fd, short(POLLIN | (C.Out.empty() ? 0 : POLLOUT)), 0});

    // Poll timeout: the nearest of the idle deadlines, the accept-backoff
    // end, and the drain grace round; -1 (block) with none pending.
    int TimeoutMs = -1;
    auto Consider = [&](uint64_t DeadlineMs) {
      uint64_t Wait = DeadlineMs > Now ? DeadlineMs - Now : 0;
      int W = Wait > 60000 ? 60000 : int(Wait);
      if (TimeoutMs < 0 || W < TimeoutMs)
        TimeoutMs = W;
    };
    if (IdleTimeoutMs > 0)
      for (const Client &C : Clients)
        Consider(C.LastActivityMs + IdleTimeoutMs);
    if (Now < AcceptBackoffUntilMs)
      Consider(AcceptBackoffUntilMs);
    if (Draining)
      Consider(Now + 200 < DrainDeadlineMs ? Now + 200 : DrainDeadlineMs);

    if (::poll(Fds.data(), nfds_t(Fds.size()), TimeoutMs) < 0) {
      if (errno == EINTR)
        continue; // likely SIGTERM: the loop top starts the drain
      std::perror("alic_serve: poll");
      break;
    }
    Now = nowMs();

    // Service existing clients first: Fds[FirstClient+I] <-> Clients[I]
    // holds only for the clients that existed at poll time, so the accept
    // of any new connection (with no pollfd yet) waits until after this.
    for (size_t I = 0; I != Clients.size();) {
      pollfd &P = Fds[FirstClient + I];
      Client &C = Clients[I];
      bool Drop = false;

      if (P.revents & POLLOUT)
        Drop = !flushClient(C);

      if (!Drop && (P.revents & (POLLIN | POLLHUP | POLLERR))) {
        // Drain the socket to EAGAIN; transient errors retry instead of
        // disconnecting (the serve.recv failpoint injects them).
        while (!Drop) {
          char Buffer[1 << 16];
          FailOutcome F = ALIC_FAILPOINT("serve.recv");
          ssize_t N;
          if (F.Fire) {
            N = -1;
            errno = F.Errno;
          } else {
            N = ::recv(C.Fd, Buffer, sizeof(Buffer), 0);
          }
          if (N < 0 && errno == EINTR)
            continue;
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          if (N <= 0) {
            Drop = true; // peer closed (0) or hard error
            break;
          }
          C.Pending.append(Buffer, size_t(N));
          C.LastActivityMs = Now;
          if (size_t(N) < sizeof(Buffer))
            break; // short read: the socket is drained
        }

        size_t Pos = 0, Eol;
        while (!Drop && !C.CloseAfterFlush &&
               (Eol = C.Pending.find('\n', Pos)) != std::string::npos) {
          std::string Line = C.Pending.substr(Pos, Eol - Pos);
          Pos = Eol + 1;
          if (Line.empty())
            continue;
          if (Line.size() > MaxRequestBytes) {
            C.Out += "{\"ok\":false,\"error\":\"request exceeds " +
                     std::to_string(MaxRequestBytes) + " bytes\"}\n";
            C.CloseAfterFlush = true;
            break;
          }
          std::string Reply;
          if (handleRequestLine(Engine, Line, Reply))
            StartDrain();
          C.Out += Reply;
          C.Out += "\n";
        }
        C.Pending.erase(0, Pos);
        // A growing line with no newline is the same protocol violation,
        // caught before the buffer balloons.
        if (!Drop && !C.CloseAfterFlush && C.Pending.size() > MaxRequestBytes) {
          C.Out += "{\"ok\":false,\"error\":\"request exceeds " +
                   std::to_string(MaxRequestBytes) + " bytes\"}\n";
          C.CloseAfterFlush = true;
        }
      }

      if (!Drop && !C.Out.empty())
        Drop = !flushClient(C);
      // A reader that cannot keep up with its own replies is disconnected
      // rather than growing an unbounded buffer.
      if (!Drop && C.Out.size() > MaxSendBufferBytes)
        Drop = true;
      if (!Drop && C.CloseAfterFlush && C.Out.empty())
        Drop = true;
      if (!Drop && IdleTimeoutMs > 0 &&
          Now >= C.LastActivityMs + IdleTimeoutMs)
        Drop = true;

      if (Drop) {
        ::close(C.Fd);
        Clients[I] = std::move(Clients.back());
        Clients.pop_back();
        Fds[FirstClient + I] = Fds.back();
        Fds.pop_back();
      } else {
        ++I;
      }
    }

    if (Listener >= 0 && (Fds[0].revents & POLLIN)) {
      while (true) {
        FailOutcome F = ALIC_FAILPOINT("serve.accept");
        int Fd;
        if (F.Fire) {
          Fd = -1;
          errno = F.Errno;
        } else {
          Fd = ::accept(Listener, nullptr, nullptr);
        }
        if (Fd >= 0) {
          setNonBlocking(Fd);
          Clients.push_back({Fd, {}, {}, nowMs(), false});
          AcceptFailures = 0;
          continue;
        }
        if (errno == EINTR)
          continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK ||
            errno == ECONNABORTED)
          break;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Out of descriptors/buffers: back off instead of spinning on a
          // level-triggered POLLIN we cannot service.
          uint64_t Delay = AcceptBackoff.delayMs(AcceptFailures++);
          AcceptBackoffUntilMs = nowMs() + Delay;
          std::fprintf(stderr,
                       "alic_serve: accept: %s; backing off %llu ms\n",
                       std::strerror(errno), (unsigned long long)Delay);
          break;
        }
        std::perror("alic_serve: accept");
        break;
      }
    }
  }

  // Graceful exit: every session snapshot is brought current, whatever
  // the checkpoint cadence, so a drained daemon never loses observations.
  size_t Sessions = Engine.sessionCount();
  size_t Clean = Engine.snapshotAll();
  if (Sessions)
    std::fprintf(stderr, "alic_serve: drained; %zu/%zu session(s) snapshotted\n",
                 Clean, Sessions);

  for (const Client &C : Clients)
    ::close(C.Fd);
  if (Listener >= 0)
    ::close(Listener);
  ::unlink(SocketPath.c_str());
  return 0;
}
